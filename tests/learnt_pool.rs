//! Solvers share no learnt clauses across sessions. A `DetectionEngine`
//! used to keep a pool of root-level lemmas that a later pass over the
//! same corpus seeded its fresh solvers from; detection never conflicts,
//! so the pool only ever handed a solver the root units it re-derives at
//! construction, and it is gone. These two cases keep the pool's names and
//! its duplicated-corpus workload and pin what stands in its place: two
//! passes over the ×4 duplicated corpus through one engine, each on a
//! fresh session, rebuild every solver and do exactly the same work —
//! byte-identical verdicts, solve counters and cache statistics — with
//! `learnt_seeded` at 0 on both, and an engine built through the inert
//! `with_learnt_pool` switch, either way, does that same work too.

use atropos::detect::{
    analyse_corpus, CacheStats, ConsistencyLevel, DetectMode, DetectSession, DetectStats,
    DetectionEngine,
};
use atropos::workloads::{all_benchmarks, chain_scenarios};
use atropos_dsl::Program;

/// The nine Table 1 workloads plus the chain scenarios, duplicated four
/// times under distinct names — every copy beyond the first is pure
/// fingerprint-duplicate load.
fn duplicated_corpus() -> Vec<(String, Program)> {
    let base: Vec<(String, Program)> = all_benchmarks()
        .into_iter()
        .chain(chain_scenarios())
        .map(|b| (b.name.to_string(), b.program))
        .collect();
    let mut corpus = Vec::with_capacity(base.len() * 4);
    for copy in 0..4 {
        for (name, p) in &base {
            corpus.push((format!("{name}#{copy}"), p.clone()));
        }
    }
    corpus
}

/// The solve counters of a pass, `queries` through `learnt_seeded`.
fn solve_counters(s: &DetectStats) -> [u64; 7] {
    [
        s.queries,
        s.sat_queries,
        s.clauses_encoded,
        s.conflicts,
        s.propagations,
        s.decisions,
        s.learnt_seeded,
    ]
}

/// One corpus pass through `engine` on a fresh session: the rendered
/// per-program verdicts, the pass's solve counters and the session's
/// cache statistics.
fn pass(
    engine: &DetectionEngine,
    programs: &[(String, Program)],
    level: ConsistencyLevel,
    mode: DetectMode,
) -> (Vec<String>, [u64; 7], CacheStats) {
    let mut session = DetectSession::new();
    let (verdicts, stats) = analyse_corpus(engine, programs, level, mode, &mut session);
    let rendered = verdicts
        .iter()
        .map(|v| format!("{:?}", v.verdicts))
        .collect();
    (rendered, solve_counters(&stats.solve), session.cache_stats())
}

fn assert_nothing_carries_between_passes(level: ConsistencyLevel, mode: DetectMode) {
    let programs = duplicated_corpus();

    let engine = DetectionEngine::new(2);
    let first = pass(&engine, &programs, level, mode);
    let second = pass(&engine, &programs, level, mode);
    assert!(first.1[0] > 0, "{level:?}/{mode:?}: the first pass solved nothing");
    assert_eq!(first.1[6], 0, "{level:?}/{mode:?}: first pass seeded");
    assert_eq!(second.1[6], 0, "{level:?}/{mode:?}: second pass seeded");
    assert_eq!(first.0, second.0, "{level:?}/{mode:?}: verdicts");
    assert_eq!(first.1, second.1, "{level:?}/{mode:?}: solve counters");
    assert_eq!(first.2, second.2, "{level:?}/{mode:?}: cache statistics");

    for flag in [true, false] {
        let shim = DetectionEngine::new(2).with_learnt_pool(flag);
        assert_eq!(
            pass(&shim, &programs, level, mode),
            first,
            "{level:?}/{mode:?}: with_learnt_pool({flag}) changed the work"
        );
    }
}

#[test]
fn pool_seeds_duplicated_corpus_pairs_ec() {
    assert_nothing_carries_between_passes(
        ConsistencyLevel::EventualConsistency,
        DetectMode::Pairs,
    );
}

#[test]
fn pool_seeds_duplicated_corpus_triples_causal() {
    assert_nothing_carries_between_passes(
        ConsistencyLevel::CausalConsistency,
        DetectMode::Triples,
    );
}
