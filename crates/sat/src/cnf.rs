//! A CNF formula builder with Tseitin-encoded boolean gates.
//!
//! [`CnfBuilder`] accumulates clauses and fresh variables, offering gate
//! constructors (`and`, `or`, `implies`, `iff`, …) that introduce definition
//! variables, plus cardinality helpers. Finished formulas are handed to the
//! [`Solver`] via [`CnfBuilder::into_solver`].

use crate::lit::{Lit, Var};
use crate::solver::{SolveResult, Solver};

/// Incremental CNF construction with gate encodings.
///
/// # Examples
///
/// ```
/// use atropos_sat::CnfBuilder;
///
/// let mut b = CnfBuilder::new();
/// let x = b.fresh();
/// let y = b.fresh();
/// let both = b.and([x, y]);
/// b.assert_lit(both);
/// let model = b.solve().model().unwrap().to_vec();
/// assert!(model[x.var().index()] && model[y.var().index()]);
/// ```
#[derive(Debug, Default)]
pub struct CnfBuilder {
    num_vars: u32,
    clauses: Vec<Vec<Lit>>,
    true_lit: Option<Lit>,
}

impl CnfBuilder {
    /// Creates an empty builder.
    pub fn new() -> CnfBuilder {
        CnfBuilder::default()
    }

    /// Allocates a fresh variable and returns its positive literal.
    pub fn fresh(&mut self) -> Lit {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v.positive()
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// Number of clauses added so far.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// A literal constrained to be true (allocated on first use).
    pub fn lit_true(&mut self) -> Lit {
        if let Some(t) = self.true_lit {
            return t;
        }
        let t = self.fresh();
        self.clauses.push(vec![t]);
        self.true_lit = Some(t);
        t
    }

    /// A literal constrained to be false.
    pub fn lit_false(&mut self) -> Lit {
        !self.lit_true()
    }

    /// Adds a raw clause.
    pub fn clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.clauses.push(lits.into_iter().collect());
    }

    /// Asserts that a literal holds.
    pub fn assert_lit(&mut self, l: Lit) {
        self.clauses.push(vec![l]);
    }

    /// Returns a literal equivalent to the conjunction of `lits`.
    pub fn and(&mut self, lits: impl IntoIterator<Item = Lit>) -> Lit {
        let lits: Vec<Lit> = lits.into_iter().collect();
        match lits.len() {
            0 => self.lit_true(),
            1 => lits[0],
            _ => {
                let g = self.fresh();
                for &l in &lits {
                    self.clauses.push(vec![!g, l]);
                }
                let mut big: Vec<Lit> = lits.iter().map(|&l| !l).collect();
                big.push(g);
                self.clauses.push(big);
                g
            }
        }
    }

    /// Returns a literal equivalent to the disjunction of `lits`.
    pub fn or(&mut self, lits: impl IntoIterator<Item = Lit>) -> Lit {
        let lits: Vec<Lit> = lits.into_iter().collect();
        match lits.len() {
            0 => self.lit_false(),
            1 => lits[0],
            _ => {
                let g = self.fresh();
                for &l in &lits {
                    self.clauses.push(vec![g, !l]);
                }
                let mut big = lits;
                big.push(!g);
                self.clauses.push(big);
                g
            }
        }
    }

    /// Returns a literal equivalent to `a → b`.
    pub fn implies(&mut self, a: Lit, b: Lit) -> Lit {
        self.or([!a, b])
    }

    /// Asserts `a → b` directly (no definition variable).
    pub fn assert_implies(&mut self, a: Lit, b: Lit) {
        self.clauses.push(vec![!a, b]);
    }

    /// Asserts `a ∧ b → c` directly.
    pub fn assert_implies2(&mut self, a: Lit, b: Lit, c: Lit) {
        self.clauses.push(vec![!a, !b, c]);
    }

    /// Returns a literal equivalent to `a ↔ b`.
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        let g = self.fresh();
        self.clauses.push(vec![!g, !a, b]);
        self.clauses.push(vec![!g, a, !b]);
        self.clauses.push(vec![g, a, b]);
        self.clauses.push(vec![g, !a, !b]);
        g
    }

    /// Asserts that at most one of `lits` holds (pairwise encoding).
    pub fn assert_at_most_one(&mut self, lits: &[Lit]) {
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                self.clauses.push(vec![!lits[i], !lits[j]]);
            }
        }
    }

    /// Asserts that exactly one of `lits` holds.
    pub fn assert_exactly_one(&mut self, lits: &[Lit]) {
        self.clauses.push(lits.to_vec());
        self.assert_at_most_one(lits);
    }

    /// Moves the accumulated formula into a fresh [`Solver`].
    pub fn into_solver(self) -> Solver {
        let mut s = Solver::new();
        for _ in 0..self.num_vars {
            s.new_var();
        }
        for c in self.clauses {
            s.add_clause(c);
        }
        s
    }

    /// Builds a solver and solves, consuming the builder.
    pub fn solve(self) -> SolveResult {
        self.into_solver().solve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(b: CnfBuilder) -> Vec<bool> {
        b.solve().model().expect("expected SAT").to_vec()
    }

    fn val(m: &[bool], l: Lit) -> bool {
        m[l.var().index()] == l.is_positive()
    }

    #[test]
    fn and_gate_semantics() {
        for want in [true, false] {
            let mut b = CnfBuilder::new();
            let x = b.fresh();
            let y = b.fresh();
            let g = b.and([x, y]);
            b.assert_lit(if want { g } else { !g });
            b.assert_lit(x);
            let m = model_of(b);
            assert_eq!(val(&m, y), want);
        }
    }

    #[test]
    fn or_gate_semantics() {
        let mut b = CnfBuilder::new();
        let x = b.fresh();
        let y = b.fresh();
        let g = b.or([x, y]);
        b.assert_lit(!g);
        let m = model_of(b);
        assert!(!val(&m, x) && !val(&m, y));
    }

    #[test]
    fn empty_and_is_true_empty_or_is_false() {
        let mut b = CnfBuilder::new();
        let t = b.and([]);
        let f = b.or([]);
        b.assert_lit(t);
        b.assert_lit(!f);
        assert!(b.solve().is_sat());

        let mut b = CnfBuilder::new();
        let f = b.or([]);
        b.assert_lit(f);
        assert!(!b.solve().is_sat());
    }

    #[test]
    fn iff_gate_semantics() {
        let mut b = CnfBuilder::new();
        let x = b.fresh();
        let y = b.fresh();
        let g = b.iff(x, y);
        b.assert_lit(g);
        b.assert_lit(x);
        let m = model_of(b);
        assert!(val(&m, y));

        let mut b = CnfBuilder::new();
        let x = b.fresh();
        let y = b.fresh();
        let g = b.iff(x, y);
        b.assert_lit(!g);
        b.assert_lit(x);
        let m = model_of(b);
        assert!(!val(&m, y));
    }

    #[test]
    fn implies_assertion() {
        let mut b = CnfBuilder::new();
        let x = b.fresh();
        let y = b.fresh();
        b.assert_implies(x, y);
        b.assert_lit(x);
        b.assert_lit(!y);
        assert!(!b.solve().is_sat());
    }

    #[test]
    fn exactly_one_picks_one() {
        let mut b = CnfBuilder::new();
        let xs: Vec<Lit> = (0..5).map(|_| b.fresh()).collect();
        b.assert_exactly_one(&xs);
        let m = model_of(b);
        assert_eq!(xs.iter().filter(|&&l| val(&m, l)).count(), 1);
    }

    #[test]
    fn at_most_one_allows_zero() {
        let mut b = CnfBuilder::new();
        let xs: Vec<Lit> = (0..4).map(|_| b.fresh()).collect();
        b.assert_at_most_one(&xs);
        for &x in &xs {
            b.assert_lit(!x);
        }
        assert!(b.solve().is_sat());
    }

    #[test]
    fn two_true_violates_at_most_one() {
        let mut b = CnfBuilder::new();
        let xs: Vec<Lit> = (0..3).map(|_| b.fresh()).collect();
        b.assert_at_most_one(&xs);
        b.assert_lit(xs[0]);
        b.assert_lit(xs[2]);
        assert!(!b.solve().is_sat());
    }

    #[test]
    fn nested_gates_compose() {
        // (x ∧ y) ∨ (!x ∧ z), assert !y and the whole thing; forces !x ∧ z.
        let mut b = CnfBuilder::new();
        let x = b.fresh();
        let y = b.fresh();
        let z = b.fresh();
        let g1 = b.and([x, y]);
        let g2 = b.and([!x, z]);
        let top = b.or([g1, g2]);
        b.assert_lit(top);
        b.assert_lit(!y);
        let m = model_of(b);
        assert!(!val(&m, x) && val(&m, z));
    }
}
