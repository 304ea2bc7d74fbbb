//! Differential fuzz: the arena solver against the retained pre-arena
//! reference implementation (`atropos_sat::reference`). On random CNFs and
//! random assumption sequences the two must agree on SAT/UNSAT; models must
//! satisfy the formula (and the assumptions); and each solver's
//! failed-assumption core must refute the formula *in the other solver* —
//! cores need not be byte-identical (the blocker fast path legitimately
//! perturbs the search), but they must be mutually valid.

use atropos_sat::{reference, Lit, SolveResult, Var};
use proptest::prelude::*;

fn to_clauses(raw: &[Vec<(u32, bool)>], num_vars: usize) -> Vec<Vec<Lit>> {
    raw.iter()
        .map(|c| {
            c.iter()
                .map(|(v, pos)| Lit::new(Var(v % num_vars as u32), *pos))
                .collect()
        })
        .collect()
}

fn arena_solver(num_vars: usize, clauses: &[Vec<Lit>]) -> atropos_sat::solver::Solver {
    let mut s = atropos_sat::solver::Solver::new();
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
    for _ in 0..num_vars {
        s.new_var();
    }
    for c in clauses {
        s.add_clause(c.iter().copied());
    }
    s
}

fn model_satisfies(model: &[bool], clauses: &[Vec<Lit>]) -> bool {
    clauses
        .iter()
        .all(|c| c.iter().any(|l| model[l.var().index()] == l.is_positive()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Plain solving: identical verdicts, valid models on both sides.
    #[test]
    fn arena_and_reference_agree_on_verdicts(
        num_vars in 1usize..12,
        raw in prop::collection::vec(
            prop::collection::vec((0u32..12, any::<bool>()), 1..4),
            0..40,
        ),
    ) {
        let clauses = to_clauses(&raw, num_vars);
        let arena = arena_solver(num_vars, &clauses).solve();
        let refr = reference_solver(num_vars, &clauses).solve();
        prop_assert_eq!(arena.is_sat(), refr.is_sat(), "verdicts diverge");
        if let SolveResult::Sat(m) = &arena {
            prop_assert!(model_satisfies(m, &clauses), "arena model invalid");
        }
        if let SolveResult::Sat(m) = &refr {
            prop_assert!(model_satisfies(m, &clauses), "reference model invalid");
        }
    }

    /// Incremental solving under a sequence of assumption sets: verdicts
    /// agree call by call, and on UNSAT each solver's failed-assumption
    /// core refutes the formula in the *other* implementation.
    #[test]
    fn cores_are_mutually_valid_under_assumptions(
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
            prop_assert_eq!(
                a.is_sat(), r.is_sat(),
                "verdicts diverge under {:?}", assumptions
            );
            if let SolveResult::Sat(m) = &a {
                prop_assert!(model_satisfies(m, &clauses), "arena model invalid");
                for &l in &assumptions {
                    prop_assert!(m[l.var().index()] == l.is_positive());
                }
            } else {
                // Both cores are subsets of the assumptions...
                let arena_core = arena.failed_assumptions().to_vec();
                let ref_core = refr.failed_assumptions().to_vec();
                for l in arena_core.iter().chain(&ref_core) {
                    prop_assert!(assumptions.contains(l), "core lit {l} not assumed");
                }
                // ...and each refutes the formula in the other solver.
                let mut check_ref = reference_solver(num_vars, &clauses);
                for &l in &arena_core {
                    check_ref.add_clause([l]);
                }
                prop_assert!(
                    !check_ref.solve().is_sat(),
                    "arena core {:?} must refute in the reference", arena_core
                );
                let mut check_arena = arena_solver(num_vars, &clauses);
                for &l in &ref_core {
                    check_arena.add_clause([l]);
                }
                prop_assert!(
                    !check_arena.solve().is_sat(),
                    "reference core {:?} must refute in the arena", ref_core
                );
            }
        }
    }
}
