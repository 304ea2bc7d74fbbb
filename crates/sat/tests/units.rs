//! Deterministic unit tests for the CDCL solver on small canonical
//! instances — complementing the randomized property tests in `prop.rs`.

use atropos_sat::{Lit, ProofEvent, SolveResult, Solver, SolverStats, Var};

/// Builds the pigeonhole instance PHP(p, h): p pigeons, h holes, each pigeon
/// in some hole, no two pigeons sharing a hole. UNSAT iff p > h.
fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
    let mut s = Solver::new();
    let at: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for row in &at {
        s.add_clause(row.iter().map(|v| v.positive()));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                s.add_clause([at[p1][h].negative(), at[p2][h].negative()]);
            }
        }
    }
    s
}

#[test]
fn pigeonhole_unsat_when_overfull() {
    for (p, h) in [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5)] {
        assert!(
            !pigeonhole(p, h).solve().is_sat(),
            "PHP({p},{h}) must be UNSAT"
        );
    }
}

#[test]
fn pigeonhole_sat_when_room() {
    for (p, h) in [(1, 1), (2, 2), (3, 4), (5, 5)] {
        let result = pigeonhole(p, h).solve();
        assert!(result.is_sat(), "PHP({p},{h}) must be SAT");
    }
}

#[test]
fn empty_formula_is_sat() {
    let mut s = Solver::new();
    assert!(s.solve().is_sat());
    // Variables without constraints are still assigned in the model.
    let mut s = Solver::new();
    let v = s.new_var();
    let SolveResult::Sat(model) = s.solve() else {
        panic!("free variable must be SAT")
    };
    assert_eq!(model.len(), v.index() + 1);
}

#[test]
fn empty_clause_is_unsat() {
    let mut s = Solver::new();
    s.new_var();
    s.add_clause([]);
    assert!(!s.solve().is_sat());
}

#[test]
fn unit_propagation_chain() {
    // a, a→b, b→c, c→d forces all four true without search.
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
    s.add_clause([vars[0].positive()]);
    for w in vars.windows(2) {
        s.add_clause([w[0].negative(), w[1].positive()]);
    }
    let SolveResult::Sat(model) = s.solve() else {
        panic!("chain must be SAT")
    };
    assert!(vars.iter().all(|v| model[v.index()]), "chain forces all true");
    let stats = {
        let mut s2 = Solver::new();
        let vs: Vec<Var> = (0..4).map(|_| s2.new_var()).collect();
        s2.add_clause([vs[0].positive()]);
        for w in vs.windows(2) {
            s2.add_clause([w[0].negative(), w[1].positive()]);
        }
        s2.solve();
        s2.stats()
    };
    assert_eq!(stats.decisions, 0, "pure propagation needs no decisions");
}

#[test]
fn contradictory_units_conflict() {
    let mut s = Solver::new();
    let a = s.new_var();
    s.add_clause([a.positive()]);
    s.add_clause([a.negative()]);
    assert!(!s.solve().is_sat());
}

#[test]
fn conflict_clause_learning_on_xor_chain() {
    // An inconsistent XOR system: a⊕b, b⊕c, a⊕c with odd parity — classic
    // driver of clause learning. Encoded directly in CNF.
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    let c = s.new_var();
    let xor = |s: &mut Solver, x: Var, y: Var, parity: bool| {
        // x ⊕ y = parity
        if parity {
            s.add_clause([x.positive(), y.positive()]);
            s.add_clause([x.negative(), y.negative()]);
        } else {
            s.add_clause([x.positive(), y.negative()]);
            s.add_clause([x.negative(), y.positive()]);
        }
    };
    xor(&mut s, a, b, true);
    xor(&mut s, b, c, true);
    xor(&mut s, a, c, true); // sum of the three left sides is 0, right is 1
    assert!(!s.solve().is_sat());
    assert!(s.stats().conflicts > 0, "refutation must go through conflicts");
}

#[test]
fn duplicate_and_tautological_literals_are_harmless() {
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    // Tautology a ∨ ¬a constrains nothing.
    s.add_clause([a.positive(), a.negative()]);
    // Duplicates collapse: (b ∨ b ∨ b) is just b.
    s.add_clause([b.positive(), b.positive(), b.positive()]);
    let SolveResult::Sat(model) = s.solve() else {
        panic!("must be SAT")
    };
    assert!(model[b.index()]);
}

#[test]
fn model_satisfies_every_clause_on_mixed_instance() {
    // A satisfiable 3-colouring-style instance; verify the returned model
    // clause by clause rather than trusting `is_sat`.
    let mut s = Solver::new();
    let n = 9;
    let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for chunk in vars.chunks(3) {
        clauses.push(chunk.iter().map(|v| v.positive()).collect());
        for i in 0..chunk.len() {
            for j in (i + 1)..chunk.len() {
                clauses.push(vec![chunk[i].negative(), chunk[j].negative()]);
            }
        }
    }
    for c in &clauses {
        s.add_clause(c.iter().copied());
    }
    let SolveResult::Sat(model) = s.solve() else {
        panic!("must be SAT")
    };
    for c in &clauses {
        assert!(
            c.iter().any(|l| model[l.var().index()] == l.is_positive()),
            "model violates {c:?}"
        );
    }
}

#[test]
fn assumptions_scope_to_one_call() {
    // (a ∨ b) with assumption ¬a forces b; with assumption ¬b forces a; and
    // the solver stays reusable across calls.
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    s.add_clause([a.positive(), b.positive()]);
    let SolveResult::Sat(m) = s.solve_with_assumptions(&[a.negative()]) else {
        panic!("SAT under ¬a")
    };
    assert!(!m[a.index()] && m[b.index()]);
    let SolveResult::Sat(m) = s.solve_with_assumptions(&[b.negative()]) else {
        panic!("SAT under ¬b")
    };
    assert!(m[a.index()] && !m[b.index()]);
    // Contradictory assumptions are UNSAT but leave the solver usable.
    assert!(!s
        .solve_with_assumptions(&[a.negative(), b.negative()])
        .is_sat());
    assert!(s.solve().is_sat());
}

#[test]
fn failed_assumption_core_is_inconsistent_subset() {
    // a→b, b→c; assuming {a, ¬c} is UNSAT and both assumptions are needed.
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    let c = s.new_var();
    let free = s.new_var();
    s.add_clause([a.negative(), b.positive()]);
    s.add_clause([b.negative(), c.positive()]);
    let result = s.solve_with_assumptions(&[free.positive(), a.positive(), c.negative()]);
    assert_eq!(result, SolveResult::Unsat);
    let core: Vec<Lit> = s.failed_assumptions().to_vec();
    assert!(core.contains(&a.positive()) && core.contains(&c.negative()));
    assert!(!core.contains(&free.positive()), "free var is not in the core");
    // Re-asserting the core as unit clauses refutes the formula outright.
    for l in &core {
        s.add_clause([*l]);
    }
    assert!(!s.solve().is_sat());
}

#[test]
fn root_unsat_reports_empty_core() {
    let mut s = Solver::new();
    let a = s.new_var();
    s.add_clause([a.positive()]);
    s.add_clause([a.negative()]);
    assert!(!s.solve_with_assumptions(&[a.positive()]).is_sat());
    assert!(s.failed_assumptions().is_empty());
}

#[test]
fn clauses_added_between_solves_take_effect() {
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    s.add_clause([a.positive(), b.positive()]);
    assert!(s.solve().is_sat());
    s.add_clause([a.negative()]);
    let SolveResult::Sat(m) = s.solve() else {
        panic!("still SAT")
    };
    assert!(!m[a.index()] && m[b.index()]);
    s.add_clause([b.negative()]);
    assert!(!s.solve().is_sat());
    // Once root-level UNSAT, no assumptions can rescue it.
    assert!(!s.solve_with_assumptions(&[a.positive()]).is_sat());
}

#[test]
fn clauses_after_a_root_unit_are_logged_as_given_and_stored_reduced() {
    let mut s = Solver::with_proofs();
    let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
    let sorted = |mut lits: Vec<Lit>| {
        lits.sort();
        lits
    };
    s.add_clause([a.positive()]);
    // Satisfied by the unit: never attached, so no core can name it.
    s.add_clause([c.positive(), a.positive(), b.positive()]);
    assert_eq!(s.num_clauses(), 0);
    // One literal falsified by the unit: stored without it.
    let given = sorted(vec![b.positive(), a.negative(), c.negative()]);
    s.add_clause(given.iter().copied());
    assert_eq!(s.num_clauses(), 1);
    assert_eq!(
        s.problem_clauses(),
        vec![vec![a.positive()], sorted(vec![b.positive(), c.negative()])]
    );
    assert!(s.solve().is_sat());
    assert!(s.refutation().is_empty(), "a SAT answer names no core");
    // Refuted under ¬b, c by the stored residue (b ∨ ¬c). The core names
    // the clause as given plus the unit that stripped ¬a from it.
    assert!(!s
        .solve_with_assumptions(&[b.negative(), c.positive()])
        .is_sat());
    assert_eq!(
        s.refutation(),
        vec![
            ProofEvent::Input(vec![a.positive()]),
            ProofEvent::Input(given),
        ]
    );
}

#[test]
fn learnt_clauses_survive_between_assumption_calls() {
    // Solving the same hard query twice must not redo all the work: the
    // second call reuses the learnt clauses and finishes with fewer
    // additional conflicts than the first.
    let mut s = Solver::new();
    let act = s.new_var();
    let at: Vec<Vec<Var>> = (0..5)
        .map(|_| (0..4).map(|_| s.new_var()).collect())
        .collect();
    // Activation-literal-guarded pigeonhole PHP(5, 4).
    for row in &at {
        let mut c: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        c.push(act.negative());
        s.add_clause(c);
    }
    for h in 0..4 {
        for p1 in 0..5 {
            for p2 in (p1 + 1)..5 {
                s.add_clause([act.negative(), at[p1][h].negative(), at[p2][h].negative()]);
            }
        }
    }
    assert!(!s.solve_with_assumptions(&[act.positive()]).is_sat());
    let first = s.stats().conflicts;
    assert!(!s.solve_with_assumptions(&[act.positive()]).is_sat());
    let second = s.stats().conflicts - first;
    assert!(
        second < first,
        "retained clauses must shortcut the second refutation ({second} vs {first})"
    );
    // With the guard off the formula is trivially satisfiable.
    assert!(s.solve_with_assumptions(&[act.negative()]).is_sat());
}

#[test]
fn dimacs_round_trip_solves_identically() {
    let clauses: Vec<Vec<Lit>> = vec![
        vec![Var(0).positive(), Var(1).positive()],
        vec![Var(0).negative(), Var(1).positive()],
        vec![Var(1).negative(), Var(2).positive()],
    ];
    let text = atropos_sat::dimacs::to_dimacs(3, &clauses);
    let mut parsed = atropos_sat::dimacs::parse_dimacs(&text).expect("dimacs parses");
    let SolveResult::Sat(model) = parsed.solver.solve() else {
        panic!("instance is SAT")
    };
    assert!(model[1] && model[2], "b and c are forced");
}

/// Adds PHP(pigeons, holes) guarded by `act` (each clause weakened by
/// `¬act`), returning the `at[pigeon][hole]` variables.
fn guarded_pigeonhole(s: &mut Solver, act: Var, pigeons: usize, holes: usize) -> Vec<Vec<Var>> {
    let at: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for row in &at {
        let mut c: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        c.push(act.negative());
        s.add_clause(c);
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                s.add_clause([act.negative(), at[p1][h].negative(), at[p2][h].negative()]);
            }
        }
    }
    at
}

/// Answers each assumption query in turn, recording its result, its
/// failed core and the solver's statistics after it.
fn answer(s: &mut Solver, queries: &[Vec<Lit>]) -> Vec<(SolveResult, Vec<Lit>, SolverStats)> {
    queries
        .iter()
        .map(|q| {
            let result = s.solve_with_assumptions(q);
            (result, s.failed_assumptions().to_vec(), s.stats())
        })
        .collect()
}

#[test]
fn clones_answer_assumptions_exactly_like_their_original() {
    // Two guarded pigeonhole groups: PHP(5, 4) is UNSAT once its guard is
    // on, PHP(4, 4) is SAT unless the assumptions crowd a hole.
    let mut s = Solver::new();
    let (hard, easy) = (s.new_var(), s.new_var());
    guarded_pigeonhole(&mut s, hard, 5, 4);
    let at = guarded_pigeonhole(&mut s, easy, 4, 4);
    // A clause a later root unit satisfies: stored until the first
    // simplification, which an explicitly simplified clone has done.
    let (x, y) = (s.new_var(), s.new_var());
    s.add_clause([x.positive(), y.positive()]);
    s.add_clause([x.positive()]);
    let crowd = |h: usize| vec![easy.positive(), at[0][h].positive(), at[1][h].positive()];
    let queries: Vec<Vec<Lit>> = vec![
        vec![hard.positive()],
        vec![hard.negative(), easy.positive()],
        crowd(0),
        vec![easy.positive(), at[2][3].positive(), at[0][0].negative()],
        vec![hard.positive(), easy.positive()],
        crowd(2),
        vec![hard.negative(), easy.positive(), at[3][1].positive()],
        vec![hard.positive()],
    ];
    let pristine = s.clone();
    let mut simplified = s.clone();
    simplified.simplify();
    assert_eq!(simplified.num_clauses() + 1, pristine.num_clauses());
    let head = answer(&mut s, &queries[..4]);
    assert!(
        s.stats().conflicts > 0,
        "the warm clone below must inherit learnt clauses"
    );
    let warm = s.clone();
    let tail = answer(&mut s, &queries[4..]);
    let all: Vec<_> = head.iter().chain(&tail).cloned().collect();
    assert!(all.iter().any(|(r, _, _)| r.is_sat()));
    assert!(all.iter().any(|(r, core, _)| !r.is_sat() && core.len() > 1));

    // Cloned before any query: the whole sequence, answer for answer —
    // also when the clone's source had already simplified at the root.
    assert_eq!(answer(&mut pristine.clone(), &queries), all);
    assert_eq!(answer(&mut simplified, &queries), all);
    // Cloned after four queries: the rest of the sequence.
    assert_eq!(answer(&mut warm.clone(), &queries[4..]), tail);
    // A clone is independent: querying it left its source untouched.
    assert_eq!(answer(&mut pristine.clone(), &queries[..4]), head);
}

/// `clone_from` into a solver that held another formula, over more or
/// fewer variables and with the other proof setting, leaves it answering
/// exactly as a fresh clone of the source: answers, models, failed cores,
/// statistics and refutations.
#[test]
fn clone_from_answers_exactly_like_a_fresh_clone() {
    for proofs in [false, true] {
        let solver = |proofs: bool| {
            if proofs {
                Solver::with_proofs()
            } else {
                Solver::new()
            }
        };
        let mut source = solver(proofs);
        let (warm, hard, easy) = (source.new_var(), source.new_var(), source.new_var());
        guarded_pigeonhole(&mut source, warm, 5, 4);
        guarded_pigeonhole(&mut source, hard, 5, 4);
        let at = guarded_pigeonhole(&mut source, easy, 4, 4);
        let queries: Vec<Vec<Lit>> = vec![
            vec![easy.positive(), at[0][1].positive(), at[1][1].positive()],
            vec![hard.negative(), easy.positive(), at[2][0].positive()],
            vec![hard.positive(), easy.positive()],
            vec![easy.positive(), at[3][3].negative()],
        ];
        // Warm the source: learnt clauses, bumped activities, a grown
        // activity increment, saved phases.
        answer(&mut source, &[vec![warm.positive()]]);
        let warmed = source.stats().conflicts;
        assert!(warmed > 0);
        let run = |s: &mut Solver| {
            let answers: Vec<_> = queries
                .iter()
                .map(|q| {
                    let result = s.solve_with_assumptions(q);
                    let core = s.failed_assumptions().to_vec();
                    (result, core, s.stats(), s.refutation())
                })
                .collect();
            (answers, s.num_vars(), s.num_clauses())
        };
        let expected = run(&mut source.clone());
        assert!(expected.0.iter().any(|(r, ..)| r.is_sat()));
        assert!(expected.0.iter().any(|(r, ..)| !r.is_sat()));
        // The queries conflict too, so every part of the search state the
        // refresh copies steers them.
        assert!(expected.0.last().unwrap().2.conflicts > warmed);

        // A larger formula with the other proof setting, already searched.
        let mut larger = solver(!proofs);
        let act = larger.new_var();
        guarded_pigeonhole(&mut larger, act, 6, 5);
        answer(&mut larger, &[vec![act.positive()], vec![act.negative()]]);
        // A smaller one, refuted at the root.
        let mut smaller = solver(proofs);
        let v = smaller.new_var();
        smaller.add_clause([v.positive()]);
        smaller.add_clause([v.negative()]);
        assert!(!smaller.solve().is_sat());
        for mut target in [larger, smaller] {
            assert_ne!(target.num_vars(), source.num_vars());
            target.clone_from(&source);
            assert_eq!(target.proof_logging(), proofs);
            assert_eq!(run(&mut target), expected, "proofs {proofs}");
        }
    }
}
