//! The witness-replay differential harness — the dynamic half of the
//! oracle's soundness story. For every initial dirty verdict a full
//! engine-driven repair run reports on TPC-C, Courseware, SmallBank, and
//! the Relay chain scenario, in the default pair mode *and* the bounded
//! three-instance triple mode, at EC and CC:
//!
//! 1. the verdict's satisfying assignment decodes into a concrete schedule
//!    ([`atropos::detect::decode_witness`]) that, executed deterministically
//!    on the simulated cluster, **manifests** the anomaly's observable
//!    predicate against the *original* program — the static witness is not
//!    a solver artifact; and
//! 2. re-decoding the same verdict against the *repaired* program with its
//!    unsafe set marked ([`atropos::detect::decode_witness_marked`])
//!    yields either no schedule at all (the anomaly's shape is gone, or
//!    every participant moved under SC) or one that no longer manifests —
//!    the repair actually **suppresses** the concrete interleaving.
//!
//! The batched decoder is pinned against the one-shot one: over the ten
//! committed `examples/corpus` programs, decoding every initial verdict
//! through one [`atropos::detect::WitnessDecoder`] per program, in any
//! order, yields the byte-identical schedules.
//!
//! SmallBank's triple mode doubles as the regression pin for the
//! orientation bug replay flushed out: its three `WriteSkewCycle`
//! verdicts carry *two* witnesses each (merged from two canonical trio
//! orientations), and decoding them requires trying every rotation of the
//! trio, because the skew enumeration pins the cycle's first role to
//! instance 0.

use std::collections::BTreeSet;

use atropos::detect::{
    decode_witness, decode_witness_marked, replay_verdict, AccessPair, ConsistencyLevel,
    DetectMode, DetectSession, DetectionEngine, WitnessDecoder,
};
use atropos::dsl::parse;
use atropos::repair::{repair_with_engine, RepairConfig};
use atropos::sim::{run_schedule, ConcreteSchedule};
use atropos::workloads::benchmark;

const LEVELS: [ConsistencyLevel; 2] = [
    ConsistencyLevel::EventualConsistency,
    ConsistencyLevel::CausalConsistency,
];

fn assert_replay_validates(workload: &str, mode: DetectMode) {
    let b = benchmark(workload).expect("registered benchmark");
    let engine = DetectionEngine::new(2);
    for level in LEVELS {
        let config = RepairConfig {
            level,
            mode,
            ..RepairConfig::default()
        };
        let mut session = DetectSession::new();
        let report = repair_with_engine(&b.program, &config, &engine, &mut session);
        let marked = report.unsafe_transactions();
        for verdict in &report.initial {
            // Original program: the witness decodes and manifests.
            let outcome = replay_verdict(&b.program, verdict, level).unwrap_or_else(|| {
                panic!(
                    "{workload} @ {level} ({mode}): {:?} {}~{} decoded to no schedule",
                    verdict.kind, verdict.txn1, verdict.txn2
                )
            });
            assert!(
                outcome.manifested,
                "{workload} @ {level} ({mode}): {:?} {}~{} replayed clean \
                 (violations {:?}, checks {}/{})",
                verdict.kind,
                verdict.txn1,
                verdict.txn2,
                outcome.violations,
                outcome.checks_passed,
                outcome.checks_total
            );
            // Repaired program: the same verdict no longer survives.
            let surviving = decode_witness_marked(&report.repaired, verdict, level, &marked)
                .is_some_and(|s| run_schedule(&s).manifested);
            assert!(
                !surviving,
                "{workload} @ {level} ({mode}): {:?} {}~{} still manifests after repair",
                verdict.kind, verdict.txn1, verdict.txn2
            );
        }
        // The engine-recorded counters agree with the replay we just did.
        let n = report.initial.len() as u64;
        assert_eq!(report.stats.replay_manifested, n, "{workload} @ {level}");
        assert_eq!(report.stats.replay_failed, 0, "{workload} @ {level}");
        assert_eq!(report.stats.replay_surviving, 0, "{workload} @ {level}");
        assert_eq!(
            report.stats.replay_suppressed, n,
            "{workload} @ {level}: every initial verdict counts as suppressed"
        );
    }
}

macro_rules! validates {
    ($($test:ident => ($name:literal, $mode:ident)),+ $(,)?) => {$(
        #[test]
        fn $test() {
            assert_replay_validates($name, DetectMode::$mode);
        }
    )+};
}

// One test per (workload, mode) so the suite parallelizes across test
// threads. Relay's pair-mode run holds vacuously (the pair oracle is blind
// to its observer chain) and pins exactly that blindness.
validates! {
    tpcc_pair_verdicts_replay => ("TPC-C", Pairs),
    tpcc_triple_verdicts_replay => ("TPC-C", Triples),
    courseware_pair_verdicts_replay => ("Courseware", Pairs),
    courseware_triple_verdicts_replay => ("Courseware", Triples),
    smallbank_pair_verdicts_replay => ("SmallBank", Pairs),
    relay_pair_verdicts_replay => ("Relay", Pairs),
    relay_triple_verdicts_replay => ("Relay", Triples),
}

/// The orientation regression, pinned explicitly: SmallBank's triple mode
/// reports three two-witness `WriteSkewCycle` verdicts whose `txn1` is not
/// the program-order-first transaction of the trio — decoding them only
/// works if the decoder tries every rotation of the trio orientation.
#[test]
fn smallbank_triple_verdicts_replay_across_rotations() {
    let b = benchmark("SmallBank").expect("registered benchmark");
    let engine = DetectionEngine::new(2);
    let config = RepairConfig {
        mode: DetectMode::Triples,
        ..RepairConfig::default()
    };
    let mut session = DetectSession::new();
    let report = repair_with_engine(&b.program, &config, &engine, &mut session);
    let skews: Vec<_> = report
        .initial
        .iter()
        .filter(|v| v.witnesses.len() == 2)
        .collect();
    assert!(
        !skews.is_empty(),
        "expected merged multi-witness skew verdicts on SmallBank"
    );
    for verdict in &skews {
        let outcome = replay_verdict(&b.program, verdict, config.level)
            .unwrap_or_else(|| panic!("{}~{} decoded to no schedule", verdict.txn1, verdict.txn2));
        assert!(outcome.manifested, "{}~{}", verdict.txn1, verdict.txn2);
    }
    assert_replay_validates("SmallBank", DetectMode::Triples);
}

/// The orders a decoder visits a report's verdicts in: report order,
/// reversed, and the decoder's own grouped visit order.
fn orders(decoder: &WitnessDecoder, verdicts: &[AccessPair]) -> [Vec<usize>; 3] {
    let forward: Vec<usize> = (0..verdicts.len()).collect();
    let reversed = forward.iter().rev().copied().collect();
    [forward, reversed, decoder.visit_order(verdicts)]
}

/// Decodes every verdict through one fresh decoder per order and checks
/// each schedule against the one-shot decode in `expected`.
fn assert_decoder_matches(
    what: &str,
    expected: &[Option<ConcreteSchedule>],
    new_decoder: impl Fn() -> WitnessDecoder,
    verdicts: &[AccessPair],
    mut decode: impl FnMut(&mut WitnessDecoder, &AccessPair) -> Option<ConcreteSchedule>,
) {
    for order in orders(&new_decoder(), verdicts) {
        let mut decoder = new_decoder();
        for i in order {
            assert_eq!(
                decode(&mut decoder, &verdicts[i]),
                expected[i],
                "{what}: verdict {i} {:?} {}~{}",
                verdicts[i].kind,
                verdicts[i].txn1,
                verdicts[i].txn2
            );
        }
    }
}

/// One committed corpus program, pairs and triples at EC and CC: every
/// initial verdict decodes through one decoder per program exactly as
/// one-shot — strictly on the original program ([`decode_witness`]) and
/// loosely on the repaired program with the unsafe set marked
/// ([`decode_witness_marked`]). Repaired programs suppress every verdict,
/// so the loose search is also checked on the original program with no
/// marks, where every verdict decodes and the memo hits return schedules.
fn assert_batched_decode_matches_one_shot(file: &str) {
    let path = format!("{}/examples/corpus/{file}", env!("CARGO_MANIFEST_DIR"));
    let program = parse(&std::fs::read_to_string(&path).expect("corpus file")).expect("parses");
    let engine = DetectionEngine::new(2);
    for mode in [DetectMode::Pairs, DetectMode::Triples] {
        for level in LEVELS {
            let config = RepairConfig {
                level,
                mode,
                ..RepairConfig::default()
            };
            let mut session = DetectSession::new();
            let report = repair_with_engine(&program, &config, &engine, &mut session);
            let verdicts = &report.initial;
            let marked = report.unsafe_transactions();
            let unmarked = BTreeSet::new();
            let what = |end: &str| format!("{file} @ {level} ({mode}), {end}");

            let strict: Vec<_> = verdicts
                .iter()
                .map(|v| decode_witness(&program, v, level))
                .collect();
            assert!(strict.iter().all(Option::is_some), "{}", what("strict"));
            assert_decoder_matches(
                &what("strict"),
                &strict,
                || WitnessDecoder::new(&program),
                verdicts,
                |d, v| d.decode(v, level),
            );

            let repaired: Vec<_> = verdicts
                .iter()
                .map(|v| decode_witness_marked(&report.repaired, v, level, &marked))
                .collect();
            assert_decoder_matches(
                &what("loose on the repaired program"),
                &repaired,
                || WitnessDecoder::new(&report.repaired),
                verdicts,
                |d, v| d.decode_marked(v, level, &marked),
            );

            let original: Vec<_> = verdicts
                .iter()
                .map(|v| decode_witness_marked(&program, v, level, &unmarked))
                .collect();
            assert!(original.iter().all(Option::is_some), "{}", what("loose"));
            assert_decoder_matches(
                &what("loose on the original program"),
                &original,
                || WitnessDecoder::new(&program),
                verdicts,
                |d, v| d.decode_marked(v, level, &unmarked),
            );
        }
    }
}

macro_rules! batched_matches_one_shot {
    ($($test:ident => $file:literal),+ $(,)?) => {$(
        #[test]
        fn $test() {
            assert_batched_decode_matches_one_shot($file);
        }
    )+};
}

batched_matches_one_shot! {
    courseware_batched_decode_matches_one_shot => "courseware.dsl",
    fmke_batched_decode_matches_one_shot => "fmke.dsl",
    killrchat_batched_decode_matches_one_shot => "killrchat.dsl",
    relay_batched_decode_matches_one_shot => "relay.dsl",
    seats_batched_decode_matches_one_shot => "seats.dsl",
    sibench_batched_decode_matches_one_shot => "sibench.dsl",
    smallbank_batched_decode_matches_one_shot => "smallbank.dsl",
    tpcc_batched_decode_matches_one_shot => "tpcc.dsl",
    twitter_batched_decode_matches_one_shot => "twitter.dsl",
    wikipedia_batched_decode_matches_one_shot => "wikipedia.dsl",
}
