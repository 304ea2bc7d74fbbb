//! Corpus-pass differential: over **all nine workloads plus Relay**,
//! the per-program verdicts `analyse_corpus` answers from one global
//! fingerprint-deduped plan must be byte-identical to running each
//! program through an isolated per-program detection — in pair mode and
//! triple mode, at 1, 2, and 8 engine threads, and for relabeled variants
//! that share every fingerprint with the originals. The corpus pass is
//! an optimization (solve each unique transaction shape once across the
//! fleet), never a different oracle; this suite pins that contract, and
//! that a single program is exactly a corpus of one.

use atropos::detect::{
    analyse_corpus, ConsistencyLevel, CorpusStats, DetectMode, DetectSession, DetectStats,
    DetectionEngine,
};
use atropos::workloads::{all_benchmarks, chain_scenarios};
use atropos_dsl::{parse, print_program, Program, Stmt};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The full corpus: Table 1's nine workloads plus the Relay chain
/// scenario, in registry order.
fn corpus() -> Vec<(String, Program)> {
    all_benchmarks()
        .into_iter()
        .chain(chain_scenarios())
        .map(|b| (b.name.to_string(), b.program))
        .collect()
}

/// One isolated reference run per program: a fresh session each, so no
/// verdict can leak between programs.
fn isolated(
    programs: &[(String, Program)],
    level: ConsistencyLevel,
    mode: DetectMode,
    threads: usize,
) -> Vec<String> {
    let engine = DetectionEngine::new(threads);
    programs
        .iter()
        .map(|(_, p)| {
            let mut session = DetectSession::new();
            let (verdicts, _) = engine.detect_with_mode(p, level, mode, &mut session);
            format!("{verdicts:?}")
        })
        .collect()
}

fn assert_corpus_matches_isolation(level: ConsistencyLevel, mode: DetectMode) {
    let programs = corpus();
    let mut reference: Option<Vec<String>> = None;
    for threads in THREAD_COUNTS {
        let engine = DetectionEngine::new(threads);
        let mut session = DetectSession::new();
        let (verdicts, stats) = analyse_corpus(&engine, &programs, level, mode, &mut session);
        assert_eq!(verdicts.len(), programs.len());
        assert!(
            stats.unique_pairs <= stats.pair_slots,
            "dedup can only shrink the plan: {stats:?}"
        );
        let rendered: Vec<String> = verdicts
            .iter()
            .map(|v| format!("{:?}", v.verdicts))
            .collect();

        // Corpus ≡ isolation, program by program, at this thread count.
        let iso = isolated(&programs, level, mode, threads);
        for ((name, _), (got, want)) in programs.iter().zip(rendered.iter().zip(&iso)) {
            assert_eq!(got, want, "{name} at {threads} threads ({level:?}, {mode:?})");
        }
        // Solve work is reported corpus-wide, never per program.
        for v in &verdicts {
            assert_eq!(
                v.stats.queries, 0,
                "{}: per-program stats carry no solve counters",
                v.name
            );
        }
        // And thread count never changes the corpus result.
        match &reference {
            None => reference = Some(rendered),
            Some(r) => assert_eq!(r, &rendered, "{threads} threads diverged"),
        }
    }
}

#[test]
fn corpus_matches_isolation_pairs_ec() {
    assert_corpus_matches_isolation(
        ConsistencyLevel::EventualConsistency,
        DetectMode::Pairs,
    );
}

#[test]
fn corpus_matches_isolation_pairs_cc() {
    assert_corpus_matches_isolation(ConsistencyLevel::CausalConsistency, DetectMode::Pairs);
}

#[test]
fn corpus_matches_isolation_triples_ec() {
    assert_corpus_matches_isolation(
        ConsistencyLevel::EventualConsistency,
        DetectMode::Triples,
    );
}

/// A duplicated corpus (every program four times) must answer every copy
/// identically while solving no more unique keys than the deduplicated
/// corpus — the fleet-scale speedup is exactly this collapse.
#[test]
fn duplicated_corpus_dedups_and_answers_all_copies() {
    let base = corpus();
    let ec = ConsistencyLevel::EventualConsistency;
    let engine = DetectionEngine::new(2);

    let mut session = DetectSession::new();
    let (_, base_stats) = analyse_corpus(&engine, &base, ec, DetectMode::Pairs, &mut session);

    let dup: Vec<(String, Program)> = (0..4)
        .flat_map(|i| {
            base.iter()
                .map(move |(n, p)| (format!("{n}#{i}"), p.clone()))
        })
        .collect();
    let mut dup_session = DetectSession::new();
    let (verdicts, dup_stats) =
        analyse_corpus(&engine, &dup, ec, DetectMode::Pairs, &mut dup_session);

    assert_eq!(dup_stats.pair_slots, 4 * base_stats.pair_slots);
    assert_eq!(
        dup_stats.unique_pairs, base_stats.unique_pairs,
        "duplicates add no solver work"
    );
    for (i, v) in verdicts.iter().enumerate() {
        let twin = &verdicts[i % base.len()];
        assert_eq!(
            format!("{:?}", v.verdicts),
            format!("{:?}", twin.verdicts),
            "{} must answer like {}",
            v.name,
            twin.name
        );
    }
}

/// `p` with every command label suffixed: a pure relabeling, so every
/// fingerprint (label-blind by design) survives while the labels — and
/// some of their relative orders (`S10x` sorts before `S1x`) — change.
fn suffixed(p: &Program) -> Program {
    fn relabel(body: &mut [Stmt]) {
        for s in body {
            match s {
                Stmt::Select(c) => c.label.0.push('x'),
                Stmt::Update(c) => c.label.0.push('x'),
                Stmt::Insert(c) => c.label.0.push('x'),
                Stmt::Delete(c) => c.label.0.push('x'),
                Stmt::If { body, .. } | Stmt::Iterate { body, .. } => relabel(body),
            }
        }
    }
    let mut p = p.clone();
    for t in &mut p.transactions {
        relabel(&mut t.body);
    }
    p
}

/// A transaction sharing nothing with any workload.
const UNRELATED: &str = "schema ZZ_NOTE { zz_id: int key, zz_n: int }
     txn zz_note(k: int) {
         x := select zz_n from ZZ_NOTE where zz_id = k;
         update ZZ_NOTE set zz_n = x.zz_n + 1 where zz_id = k;
         return 0;
     }";

/// `p` under default labels with [`UNRELATED`] declared first: default
/// labels are numbered per program in source order, so every command's
/// label shifts while every original transaction keeps its fingerprint.
fn prepended(p: &Program) -> Program {
    let printed = print_program(p);
    let unlabeled: Vec<&str> = printed.split(' ').filter(|w| !w.starts_with('@')).collect();
    parse(&format!("{UNRELATED}\n{}", unlabeled.join(" "))).expect("prepended variant parses")
}

/// Every workload, plus its suffixed and prepended variants after it: the
/// variants' transactions hit the entries the originals' solved
/// (fingerprints ignore labels), yet each must be answered under its own
/// labels — in a corpus pass, and in a session shared program by program.
fn assert_label_variants_match_isolation(level: ConsistencyLevel, mode: DetectMode) {
    let base = corpus();
    let programs: Vec<(String, Program)> = base
        .iter()
        .cloned()
        .chain(
            base.iter()
                .map(|(n, p)| (format!("{n}+suffixed"), suffixed(p))),
        )
        .chain(
            base.iter()
                .map(|(n, p)| (format!("{n}+prepended"), prepended(p))),
        )
        .collect();
    let iso = isolated(&programs, level, mode, 2);
    let engine = DetectionEngine::new(2);
    let (verdicts, _) = analyse_corpus(&engine, &programs, level, mode, &mut DetectSession::new());
    let mut shared = DetectSession::new();
    for (((name, p), v), want) in programs.iter().zip(&verdicts).zip(&iso) {
        assert_eq!(
            &format!("{:?}", v.verdicts),
            want,
            "{name}: corpus ({level:?}, {mode:?})"
        );
        let (got, _) = engine.detect_with_mode(p, level, mode, &mut shared);
        assert_eq!(
            &format!("{got:?}"),
            want,
            "{name}: shared session ({level:?}, {mode:?})"
        );
    }
}

#[test]
fn label_variants_match_isolation_pairs_ec() {
    assert_label_variants_match_isolation(ConsistencyLevel::EventualConsistency, DetectMode::Pairs);
}

#[test]
fn label_variants_match_isolation_triples_ec() {
    assert_label_variants_match_isolation(
        ConsistencyLevel::EventualConsistency,
        DetectMode::Triples,
    );
}

/// The solve counters of a pass, `queries` through `learnt_seeded`.
fn solve_counters(s: &DetectStats) -> [u64; 9] {
    [
        s.queries,
        s.sat_queries,
        s.memo_hits,
        s.clauses_encoded,
        s.clauses_fresh_equivalent,
        s.conflicts,
        s.propagations,
        s.decisions,
        s.learnt_seeded,
    ]
}

/// A program is a corpus of one: `analyse_corpus` over `[p]` and
/// `detect_with_mode(p)`, each with a fresh engine and session, give the
/// same verdicts, the same cache statistics, and the same solve work.
#[test]
fn a_program_is_a_corpus_of_one() {
    let ec = ConsistencyLevel::EventualConsistency;
    for mode in [DetectMode::Pairs, DetectMode::Triples] {
        for (name, p) in corpus() {
            let mut alone = DetectSession::new();
            let (want, stats) = DetectionEngine::new(2).detect_with_mode(&p, ec, mode, &mut alone);
            let mut one = DetectSession::new();
            let batch = [(name.clone(), p)];
            let (got, corpus_stats) =
                analyse_corpus(&DetectionEngine::new(2), &batch, ec, mode, &mut one);
            assert_eq!(got[0].verdicts, want, "{name} ({mode:?})");
            assert_eq!(one.cache_stats(), alone.cache_stats(), "{name} ({mode:?})");
            assert_eq!(
                solve_counters(&corpus_stats.solve),
                solve_counters(&stats),
                "{name} ({mode:?})"
            );
            assert_eq!(
                (got[0].stats.pairs, got[0].stats.triples),
                (stats.pairs, stats.triples),
                "{name} ({mode:?})"
            );
        }
    }
}

/// `p` with its transactions declared in reverse order: every slice
/// fingerprint survives, but each ordered pair of distinct transactions
/// runs the symmetric template in one copy and not in the other, so the
/// two copies plan distinct keys that share one retained solver.
fn reversed(p: &Program) -> Program {
    let mut p = p.clone();
    p.transactions.reverse();
    p
}

/// Every Table 1 workload in a corpus with its transaction-reversed twin,
/// through EC, CC and RR pair passes on one session, rendered with the
/// wall-clock seconds zeroed: each pass's verdicts, its `CorpusStats` and
/// the session's `CacheStats` after it.
fn reordered_twin_passes(threads: usize) -> Vec<String> {
    let engine = DetectionEngine::new(threads);
    let mut out = Vec::new();
    for b in all_benchmarks() {
        let programs = [
            (b.name.to_string(), b.program.clone()),
            (format!("{}+reversed", b.name), reversed(&b.program)),
        ];
        let mut session = DetectSession::new();
        for level in [
            ConsistencyLevel::EventualConsistency,
            ConsistencyLevel::CausalConsistency,
            ConsistencyLevel::RepeatableRead,
        ] {
            let (verdicts, stats) =
                analyse_corpus(&engine, &programs, level, DetectMode::Pairs, &mut session);
            let stats = CorpusStats {
                seconds: 0.0,
                solve: DetectStats {
                    seconds: 0.0,
                    ..stats.solve
                },
                ..stats
            };
            let rendered: Vec<String> = verdicts
                .iter()
                .map(|v| format!("{}: {:?}", v.name, v.verdicts))
                .collect();
            out.push(format!(
                "{} @ {level:?}: {rendered:?} {stats:?} {:?}",
                b.name,
                session.cache_stats()
            ));
        }
    }
    out
}

/// Two planned keys that differ only in the symmetric flag share one
/// retained solver, which goes to the first in plan order while the
/// second grounds its own. So the solve counters, not only the verdicts,
/// are byte-identical at every thread count, pass after pass.
#[test]
fn reordered_twins_are_thread_count_invariant() {
    let reference = reordered_twin_passes(1);
    for threads in THREAD_COUNTS {
        for rep in 0..3 {
            let got = reordered_twin_passes(threads);
            for (want, got) in reference.iter().zip(&got) {
                assert_eq!(got, want, "{threads} threads, repetition {rep}");
            }
            assert_eq!(got.len(), reference.len());
        }
    }
}
