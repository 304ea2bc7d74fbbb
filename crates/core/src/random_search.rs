//! The random-refactoring baseline of Fig. 16: apply randomly chosen schema
//! refactorings (ignoring the anomaly oracle) and count the anomalies that
//! remain. Used to demonstrate that oracle guidance, not refactoring per
//! se, is what eliminates bugs.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use atropos_detect::{
    detect_anomalies, ConsistencyLevel, DetectMode, DetectSession, DetectionEngine,
};
use atropos_dsl::Program;
use atropos_semantics::ThetaMap;

use crate::merge::try_merging;
use crate::rewrite::{apply_logging, apply_redirect};

/// Result of one random-refactoring round.
#[derive(Debug, Clone)]
pub struct RandomSearchOutcome {
    /// The (possibly mangled, always well-typed) refactored program.
    pub program: Program,
    /// Number of random refactorings that actually applied.
    pub applied: usize,
    /// Anomalous access pairs of the result under EC.
    pub anomalies: usize,
}

/// Applies up to `moves` randomly chosen refactorings (merge / redirect with
/// a random record correspondence / logging of a random integer field) and
/// reports the anomaly count of the result.
pub fn random_refactor(program: &Program, seed: u64, moves: usize) -> RandomSearchOutcome {
    let (current, applied) = random_moves(program, seed, moves);
    let anomalies = detect_anomalies(&current, ConsistencyLevel::EventualConsistency).len();
    RandomSearchOutcome {
        program: current,
        applied,
        anomalies,
    }
}

/// [`random_refactor`] with the anomaly count discharged through a shared
/// engine and session: every round is one session run, so rounds over the
/// same base program answer the transaction pairs their random moves left
/// untouched (usually most of them — random moves rarely apply) from warm
/// verdicts instead of re-solving. Outcome-identical to [`random_refactor`]
/// for every `(program, seed, moves)` triple.
pub fn random_refactor_with_session(
    program: &Program,
    seed: u64,
    moves: usize,
    engine: &DetectionEngine,
    session: &mut DetectSession,
) -> RandomSearchOutcome {
    let (current, applied) = random_moves(program, seed, moves);
    // Sweep the session to the shared base program between rounds: the
    // previous round's mutated shapes are evicted, the base shapes — the
    // source of cross-round reuse — stay warm.
    session.sweep(program);
    session.begin_run();
    let ec = ConsistencyLevel::EventualConsistency;
    let (pairs, _) = engine.detect_with_mode(&current, ec, DetectMode::Pairs, session);
    RandomSearchOutcome {
        program: current,
        applied,
        anomalies: pairs.len(),
    }
}

/// The deterministic random-move replay shared by both entry points.
fn random_moves(program: &Program, seed: u64, moves: usize) -> (Program, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = program.clone();
    let mut applied = 0;
    for _ in 0..moves {
        let choice = rng.gen_range(0..3);
        let next = match choice {
            0 => random_merge(&current, &mut rng),
            1 => random_redirect(&current, &mut rng),
            _ => random_logging(&current, &mut rng),
        };
        if let Some(p) = next {
            current = p;
            applied += 1;
        }
    }
    (current, applied)
}

fn random_merge(p: &Program, rng: &mut StdRng) -> Option<Program> {
    let labels: Vec<_> = p
        .transactions
        .iter()
        .flat_map(|t| t.commands().into_iter().filter_map(|s| s.label().cloned()))
        .collect();
    if labels.len() < 2 {
        return None;
    }
    let l1 = labels.choose(rng)?.clone();
    let l2 = labels.choose(rng)?.clone();
    try_merging(p, &l1, &l2)
}

fn random_redirect(p: &Program, rng: &mut StdRng) -> Option<Program> {
    if p.schemas.len() < 2 {
        return None;
    }
    let src = p.schemas.choose(rng)?;
    let dst = p.schemas.choose(rng)?;
    if src.name == dst.name {
        return None;
    }
    // Random θ̂: map each source key to a random type-compatible dst field.
    let mut theta = Vec::new();
    for k in src.primary_key() {
        let kd = src.field(k).expect("pk exists");
        let candidates: Vec<_> = dst
            .fields
            .iter()
            .filter(|f| f.ty == kd.ty)
            .collect();
        let target = candidates.choose(rng)?;
        theta.push((k.to_owned(), target.name.clone()));
    }
    let value_fields: Vec<String> = src.value_fields().iter().map(|f| (*f).to_owned()).collect();
    if value_fields.is_empty() {
        return None;
    }
    let moved: std::collections::BTreeSet<String> = value_fields
        .iter()
        .filter(|_| rng.gen_bool(0.7))
        .cloned()
        .collect();
    if moved.is_empty() {
        return None;
    }
    apply_redirect(p, &src.name, &dst.name, &moved, &ThetaMap::new(theta)).map(|(p, _)| p)
}

fn random_logging(p: &Program, rng: &mut StdRng) -> Option<Program> {
    let schema = p.schemas.choose(rng)?;
    let fields: Vec<String> = schema
        .fields
        .iter()
        .filter(|f| !f.primary_key && f.ty == atropos_dsl::Ty::Int)
        .map(|f| f.name.clone())
        .collect();
    let field = fields.choose(rng)?;
    apply_logging(p, &schema.name, field).map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_dsl::{check_program, parse};

    const SRC: &str = "schema A { id: int key, v: int, w: int }
         schema B { id: int key, a_id: int, z: int }
         txn t1(k: int) {
             x := select v from A where id = k;
             update A set v = x.v + 1 where id = k;
             return 0;
         }
         txn t2(k: int) {
             y := select a_id, z from B where id = k;
             u := select w from A where id = y.a_id;
             return u.w + y.z;
         }";

    #[test]
    fn random_rounds_always_produce_well_typed_programs() {
        let p = parse(SRC).unwrap();
        for seed in 0..20 {
            let out = random_refactor(&p, seed, 5);
            check_program(&out.program).unwrap();
        }
    }

    /// A counter increment the logger rule fixes outright — small enough
    /// that random search stumbles onto the repair for many seeds.
    const COUNTER: &str = "schema C { id: int key, cnt: int }
         txn bump(k: int) {
             x := select cnt from C where id = k;
             update C set cnt = x.cnt + 1 where id = k;
             return 0;
         }";

    #[test]
    fn fixed_seed_runs_are_deterministic_and_reported_faithfully() {
        let p = parse(SRC).unwrap();
        let a = random_refactor(&p, 7, 6);
        let b = random_refactor(&p, 7, 6);
        assert_eq!(a.program, b.program, "same seed must replay identically");
        assert_eq!(a.applied, b.applied);
        assert_eq!(a.anomalies, b.anomalies);
        // The reported anomaly count matches an independent recount.
        assert_eq!(
            a.anomalies,
            detect_anomalies(&a.program, ConsistencyLevel::EventualConsistency).len()
        );
    }

    #[test]
    fn pinned_seed_reaches_a_repaired_program_with_driver_invariants() {
        // Seed 72 applies one random logging refactoring that happens to be
        // the oracle-guided repair; the outcome must satisfy the same
        // invariants the deterministic driver guarantees.
        let p = parse(COUNTER).unwrap();
        let out = random_refactor(&p, 72, 4);
        assert!(out.applied > 0);
        assert_eq!(out.anomalies, 0, "seed 72 repairs the counter: {out:?}");
        check_program(&out.program).unwrap();
        assert!(out.program.transaction("bump").is_some(), "API preserved");

        let report = crate::repair::repair_program(
            &p,
            ConsistencyLevel::EventualConsistency,
        );
        assert!(report.remaining.is_empty());
        // Both eliminated every initial anomaly; the lucky random seed found
        // the very same logging table the driver introduces.
        assert_eq!(
            out.anomalies,
            report.remaining.len(),
            "random (seed 72) and deterministic outcomes diverge"
        );
        assert!(out.program.schema("C_CNT_LOG").is_some());
        assert!(report.repaired.schema("C_CNT_LOG").is_some());
    }

    /// Session-shared rounds must report exactly what the plain entry
    /// point reports, while the shared cache turns repeated base shapes
    /// into warm cross-run verdicts.
    #[test]
    fn session_shared_rounds_match_plain_and_reuse_verdicts() {
        let p = parse(SRC).unwrap();
        let engine = DetectionEngine::new(2);
        let mut session = DetectSession::new();
        for seed in 0..10 {
            let plain = random_refactor(&p, seed, 5);
            let shared = random_refactor_with_session(&p, seed, 5, &engine, &mut session);
            assert_eq!(shared.program, plain.program, "seed {seed}");
            assert_eq!(shared.applied, plain.applied, "seed {seed}");
            assert_eq!(shared.anomalies, plain.anomalies, "seed {seed}");
        }
        let stats = session.cache_stats();
        assert!(
            stats.cross_run_hits > 0,
            "ten rounds over one base program must share verdicts: {stats:?}"
        );
    }

    #[test]
    fn random_refactoring_rarely_eliminates_all_anomalies() {
        let p = parse(SRC).unwrap();
        let base = detect_anomalies(&p, ConsistencyLevel::EventualConsistency).len();
        assert!(base > 0);
        let mut no_better = 0;
        for seed in 0..20 {
            let out = random_refactor(&p, seed, 5);
            if out.anomalies >= base {
                no_better += 1;
            }
        }
        // The vast majority of random rounds do not improve the program.
        assert!(no_better >= 10, "only {no_better}/20 rounds failed to improve");
    }
}
