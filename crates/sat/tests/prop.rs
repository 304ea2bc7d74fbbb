//! Property tests: the reference solver agrees with brute force on random
//! small formulas, and its models really satisfy the input.

use atropos_sat::{Lit, SolveResult, Solver, Var};
use proptest::prelude::*;

fn brute_force(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
    'outer: for m in 0u32..(1 << num_vars) {
        for c in clauses {
            if !c
                .iter()
                .any(|l| ((m >> l.var().0) & 1 == 1) == l.is_positive())
            {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn solver_agrees_with_brute_force(
        num_vars in 1usize..12,
        raw in prop::collection::vec(
            prop::collection::vec((0u32..12, any::<bool>()), 1..4),
            0..40,
        ),
    ) {
        let clauses: Vec<Vec<Lit>> = raw
            .iter()
            .map(|c| {
                c.iter()
                    .map(|(v, pos)| Lit::new(Var(v % num_vars as u32), *pos))
                    .collect()
            })
            .collect();
        let mut solver = Solver::new();
        for _ in 0..num_vars {
            solver.new_var();
        }
        for c in &clauses {
            solver.add_clause(c.iter().copied());
        }
        let result = solver.solve();
        prop_assert_eq!(result.is_sat(), brute_force(num_vars, &clauses));
        if let SolveResult::Sat(model) = result {
            for c in &clauses {
                prop_assert!(
                    c.iter().any(|l| model[l.var().index()] == l.is_positive()),
                    "model violates clause {:?}", c
                );
            }
        }
    }
}
