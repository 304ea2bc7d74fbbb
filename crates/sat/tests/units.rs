//! Deterministic unit tests for the reference solver on small canonical
//! instances — complementing the randomized property tests in `prop.rs`.

use atropos_sat::{Lit, SolveResult, Solver, Var};

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
fn an_exhausted_budget_returns_to_the_root() {
    // PHP(3,2) is refuted only after conflicts under decisions.
    let mut s = pigeonhole(3, 2);
    assert_eq!(s.solve_within(0), None);
    assert_eq!(s.stats().conflicts, 1);
    let needed = {
        let mut fresh = pigeonhole(3, 2);
        assert_eq!(fresh.solve(), SolveResult::Unsat);
        fresh.stats().conflicts
    };
    assert!(needed > 1, "PHP(3,2) needs {needed} conflicts");
    assert_eq!(s.solve_within(needed - 1), None);
    // Back at the root: a clause can be added, and a budget that covers
    // the search decides the formula as an unbounded solve does.
    let extra = s.new_var();
    s.add_clause([extra.positive()]);
    assert_eq!(s.solve_within(needed), Some(SolveResult::Unsat));
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
fn xor_chain_refutes_through_conflicts() {
    // An inconsistent XOR system: a⊕b, b⊕c, a⊕c with odd parity, which no
    // unit propagation at the root refutes. Encoded directly in CNF.
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
    // Once root-level UNSAT, no further clause can rescue it.
    s.add_clause([a.positive()]);
    assert!(!s.solve().is_sat());
}

#[test]
fn clauses_after_a_root_unit_are_stored_reduced() {
    let mut s = Solver::new();
    let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
    s.add_clause([a.positive()]);
    // Satisfied by the unit: never stored.
    s.add_clause([c.positive(), a.positive(), b.positive()]);
    assert_eq!(s.num_clauses(), 0);
    // One literal falsified by the unit: stored without it.
    s.add_clause([b.positive(), a.negative(), c.negative()]);
    assert_eq!(s.num_clauses(), 1);
    // Reduced to a unit: a root fact that propagates at once, through the
    // stored (b ∨ ¬c) as well, so no variable is left to decide.
    s.add_clause([a.negative(), c.positive()]);
    assert_eq!(s.num_clauses(), 1);
    let SolveResult::Sat(m) = s.solve() else {
        panic!("must be SAT")
    };
    assert!(m[a.index()] && m[b.index()] && m[c.index()]);
    assert_eq!(s.stats().decisions, 0);
}
