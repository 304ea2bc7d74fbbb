//! Differential fuzz of the certificate pipeline: random CNFs are solved
//! by both the arena solver and the retained reference implementation with
//! proof logging on; every UNSAT verdict must yield a certificate this
//! crate's independent checker accepts — from the arena solver's core
//! ([`Solver::refutation`]), whose every `Input` must be a clause the
//! solver was given, and from the reference solver's cumulative log — and
//! mutated certificates (corrupted bytes, a dropped final empty clause, a
//! reordered empty clause) must be rejected.
//!
//! [`Solver::refutation`]: atropos_sat::Solver::refutation
//!
//! The `Lit` → DIMACS bridge is deliberately re-implemented here: the
//! checker library itself must stay independent of the solver stack, so
//! the only shared vocabulary is the `i32` literal convention.

use atropos_proof::{check, check_blob, proof_hash, Proof, Step};
use atropos_sat::{reference, Lit, ProofEvent, Solver, Var};
use proptest::prelude::*;

fn to_dimacs_lit(l: Lit) -> i32 {
    let v = l.var().0 as i32 + 1;
    if l.is_positive() {
        v
    } else {
        -v
    }
}

fn to_steps(events: &[ProofEvent]) -> Vec<Step> {
    events
        .iter()
        .map(|e| match e {
            ProofEvent::Input(l) => Step::Input(l.iter().copied().map(to_dimacs_lit).collect()),
            ProofEvent::Add(l) => Step::Add(l.iter().copied().map(to_dimacs_lit).collect()),
            ProofEvent::Delete(l) => Step::Delete(l.iter().copied().map(to_dimacs_lit).collect()),
        })
        .collect()
}

/// Assembles the full certificate for an UNSAT answer: the core (or the
/// cumulative event log), then the trailer — `Add(¬core)` justified by the final
/// conflict analysis, one `Assume` per failed assumption, and the empty
/// clause. A root refutation (empty core) needs only the empty clause.
fn certificate(events: &[ProofEvent], core: &[Lit]) -> Proof {
    let mut steps = to_steps(events);
    if !core.is_empty() {
        steps.push(Step::Add(
            core.iter().map(|&l| to_dimacs_lit(!l)).collect(),
        ));
        for &l in core {
            steps.push(Step::Assume(to_dimacs_lit(l)));
        }
    }
    steps.push(Step::Add(vec![]));
    Proof { steps }
}

fn to_clauses(raw: &[Vec<(u32, bool)>], num_vars: usize) -> Vec<Vec<Lit>> {
    raw.iter()
        .map(|c| {
            c.iter()
                .map(|(v, pos)| Lit::new(Var(v % num_vars as u32), *pos))
                .collect()
        })
        .collect()
}

/// Whether every `Input` of an arena core is one of `clauses` as the
/// solver stores a given clause: sorted and deduplicated.
fn inputs_were_given(core: &[ProofEvent], clauses: &[Vec<Lit>]) -> bool {
    let given: Vec<Vec<Lit>> = clauses
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.sort();
            c.dedup();
            c
        })
        .collect();
    core.iter().all(|e| match e {
        ProofEvent::Input(l) => given.contains(l),
        _ => true,
    })
}

fn arena_solver(num_vars: usize, clauses: &[Vec<Lit>]) -> Solver {
    let mut s = Solver::with_proofs();
    for _ in 0..num_vars {
        s.new_var();
    }
    for c in clauses {
        s.add_clause(c.iter().copied());
    }
    s
}

fn reference_solver(num_vars: usize, clauses: &[Vec<Lit>]) -> reference::Solver {
    let mut s = reference::Solver::new();
    s.set_proof_logging(true);
    for _ in 0..num_vars {
        s.new_var();
    }
    for c in clauses {
        s.add_clause(c.iter().copied());
    }
    s
}

/// All three mutation classes must turn an accepted certificate into a
/// rejected one.
fn assert_mutations_rejected(proof: &Proof) {
    // Corrupted payload byte: the checksum catches every single-byte flip.
    let blob = proof.encode();
    let mut corrupt = blob.clone();
    let mid = blob.len() / 2;
    corrupt[mid] ^= 0x20;
    assert!(
        check_blob(&corrupt).is_err(),
        "corrupted byte {mid} accepted"
    );
    assert_ne!(proof_hash(&corrupt), proof_hash(&blob));

    // Dropped final step: the empty clause is the proof's conclusion;
    // without an explicit (checked) `Add([])` the certificate is void.
    let mut dropped = proof.clone();
    let last = dropped.steps.pop();
    assert_eq!(last, Some(Step::Add(vec![])));
    assert!(check(&dropped).is_err(), "dropped conclusion accepted");

    // Reordered: the empty clause moved to the front is not yet RUP.
    let mut reordered = proof.clone();
    let conclusion = reordered.steps.pop().unwrap();
    reordered.steps.insert(0, conclusion);
    assert!(check(&reordered).is_err(), "reordered conclusion accepted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Root-level solving: every UNSAT verdict from either solver yields
    /// a certificate the checker accepts — and that survives the binary
    /// round-trip but not mutation.
    #[test]
    fn root_refutations_certify(
        num_vars in 1usize..12,
        raw in prop::collection::vec(
            prop::collection::vec((0u32..12, any::<bool>()), 1..4),
            0..40,
        ),
    ) {
        let clauses = to_clauses(&raw, num_vars);
        let mut arena = arena_solver(num_vars, &clauses);
        let mut refr = reference_solver(num_vars, &clauses);
        let a = arena.solve();
        let r = refr.solve();
        prop_assert_eq!(a.is_sat(), r.is_sat(), "verdicts diverge");
        if !a.is_sat() {
            let core = arena.refutation();
            prop_assert!(inputs_were_given(&core, &clauses), "core names an ungiven input");
            for (name, events) in [("arena", &core[..]), ("reference", refr.proof_events())] {
                let proof = certificate(events, &[]);
                let report = check(&proof);
                prop_assert!(report.is_ok(), "{} proof rejected: {:?}", name, report);
                let blob = proof.encode();
                prop_assert!(check_blob(&blob).is_ok(), "{} blob rejected", name);
                prop_assert_eq!(&Proof::decode(&blob).unwrap(), &proof);
                assert_mutations_rejected(&proof);
            }
        }
    }

    /// Incremental solving under assumption sequences: each UNSAT call's
    /// core (arena) or cumulative log (reference) plus the failed-core
    /// trailer certifies, across retained learnts and re-entrant solves.
    #[test]
    fn assumption_refutations_certify(
        num_vars in 1usize..10,
        raw in prop::collection::vec(
            prop::collection::vec((0u32..10, any::<bool>()), 1..4),
            0..30,
        ),
        raw_assumption_sets in prop::collection::vec(
            prop::collection::vec((0u32..10, any::<bool>()), 0..5),
            1..4,
        ),
    ) {
        let clauses = to_clauses(&raw, num_vars);
        let mut arena = arena_solver(num_vars, &clauses);
        let mut refr = reference_solver(num_vars, &clauses);
        for set in &raw_assumption_sets {
            let assumptions: Vec<Lit> = set
                .iter()
                .map(|(v, pos)| Lit::new(Var(v % num_vars as u32), *pos))
                .collect();
            let a = arena.solve_with_assumptions(&assumptions);
            let r = refr.solve_with_assumptions(&assumptions);
            prop_assert_eq!(a.is_sat(), r.is_sat(), "verdicts diverge");
            if a.is_sat() {
                continue;
            }
            let core = arena.refutation();
            prop_assert!(inputs_were_given(&core, &clauses), "core names an ungiven input");
            let arena_proof = certificate(&core, arena.failed_assumptions());
            let ref_proof =
                certificate(refr.proof_events(), refr.failed_assumptions());
            for (name, proof) in [("arena", &arena_proof), ("reference", &ref_proof)] {
                let report = check(proof);
                prop_assert!(report.is_ok(), "{} proof rejected: {:?}", name, report);
                prop_assert!(check_blob(&proof.encode()).is_ok(), "{} blob rejected", name);
                assert_mutations_rejected(proof);
            }
        }
    }
}

/// A refutation long enough to reduce the learnt database and compact
/// the arena: guarded PHP(8, 7), every clause also carrying `¬u` for a
/// root unit `u` added first, so the solver stores each clause without
/// `¬u` and every lemma's derivation rests on that root fact. Lemmas
/// deleted mid-search stay nameable through the core record, and the core
/// certifies on both askings of the query — the second one answered from
/// the lemmas the first one learnt.
#[test]
fn cores_survive_learnt_deletion_and_compaction() {
    let mut s = Solver::with_proofs();
    let (u, act) = (s.new_var(), s.new_var());
    let at: Vec<Vec<Var>> = (0..8)
        .map(|_| (0..7).map(|_| s.new_var()).collect())
        .collect();
    let mut clauses = vec![vec![u.positive()]];
    for row in &at {
        let mut c: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        c.extend([act.negative(), u.negative()]);
        clauses.push(c);
    }
    for h in 0..7 {
        for p1 in 0..8 {
            for p2 in (p1 + 1)..8 {
                clauses.push(vec![
                    u.negative(),
                    act.negative(),
                    at[p1][h].negative(),
                    at[p2][h].negative(),
                ]);
            }
        }
    }
    for c in &clauses {
        s.add_clause(c.iter().copied());
    }
    for asking in 0..2 {
        assert!(!s.solve_with_assumptions(&[act.positive()]).is_sat());
        let core = s.refutation();
        assert!(inputs_were_given(&core, &clauses));
        let lemmas = core
            .iter()
            .filter(|e| matches!(e, ProofEvent::Add(_)))
            .count();
        assert!(
            lemmas > 0,
            "asking {asking}: a pigeonhole refutation needs lemmas"
        );
        let report = check(&certificate(&core, s.failed_assumptions()))
            .unwrap_or_else(|e| panic!("asking {asking}: core rejected: {e}"));
        assert_eq!(report.rup_checks, lemmas + 2);
    }
    let stats = s.stats();
    assert!(stats.deleted > 0 && stats.compactions > 0, "{stats:?}");
}
