//! Bridging refutations into checkable certificates.
//!
//! The checker crate (`atropos_proof`) deliberately shares no code with the
//! detector — its only vocabulary is the DIMACS `i32` literal convention.
//! This module owns the translation: the refutation of one UNSAT query
//! (the clause instances of the reference encoding a
//! [`crate::closure::Closure`] names) plus the query's assumptions become
//! an encoded certificate blob whose acceptance by
//! [`atropos_proof::check_blob`] is independent evidence for the verdict.
//!
//! Variables are renumbered densely, keeping their order: a refutation
//! names a handful of a formula's thousands of variables, and the checker
//! rejects any variable larger than the blob's payload length in bytes.

use atropos_proof::{Proof, Step};
use atropos_sat::Lit;

/// The `Lit` → DIMACS bridge of one certificate: the `i`-th smallest
/// variable the certificate names becomes `i + 1`, negated literals
/// become negative numbers.
struct Dimacs {
    /// The variables named, ascending.
    vars: Vec<u32>,
}

impl Dimacs {
    fn new<'a>(lits: impl Iterator<Item = &'a Lit>) -> Dimacs {
        let mut vars: Vec<u32> = lits.map(|l| l.var().0).collect();
        vars.sort_unstable();
        vars.dedup();
        Dimacs { vars }
    }

    fn lit(&self, l: Lit) -> i32 {
        let at = self
            .vars
            .binary_search(&l.var().0)
            .expect("every literal was named");
        let v = at as i32 + 1;
        if l.is_positive() {
            v
        } else {
            -v
        }
    }

    fn clause(&self, lits: &[Lit]) -> Vec<i32> {
        lits.iter().map(|&l| self.lit(l)).collect()
    }
}

/// Assembles the certificate for one UNSAT answer and encodes it: the
/// refuting clauses as inputs, then the trailer — `Add(¬assumptions)`
/// justified by the inputs, one `Assume` per assumption, and the empty
/// clause. A root refutation (no assumptions) needs only the empty clause.
pub(crate) fn certificate_blob(inputs: &[Vec<Lit>], assumptions: &[Lit]) -> Vec<u8> {
    let dimacs = Dimacs::new(inputs.iter().flatten().chain(assumptions));
    let mut steps = Vec::with_capacity(inputs.len() + assumptions.len() + 2);
    steps.extend(inputs.iter().map(|c| Step::Input(dimacs.clause(c))));
    if !assumptions.is_empty() {
        steps.push(Step::Add(assumptions.iter().map(|&l| dimacs.lit(!l)).collect()));
        steps.extend(assumptions.iter().map(|&l| Step::Assume(dimacs.lit(l))));
    }
    steps.push(Step::Add(vec![]));
    Proof { steps }.encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_sat::Var;

    #[test]
    fn bridge_matches_dimacs_convention() {
        // Variables 0 and 6 are the only ones named: they become 1 and 2.
        let (a, g) = (Lit::new(Var(0), true), Lit::new(Var(6), true));
        let blob = certificate_blob(&[vec![!a, !g]], &[g, a]);
        let proof = atropos_proof::Proof::decode(&blob).unwrap();
        assert_eq!(
            proof.steps,
            vec![
                Step::Input(vec![-1, -2]),
                Step::Add(vec![-2, -1]),
                Step::Assume(2),
                Step::Assume(1),
                Step::Add(vec![]),
            ]
        );
    }

    #[test]
    fn root_refutation_blob_checks() {
        // x ∧ ¬x, refuted at the root: the core alone plus Add([]) must be
        // accepted by the independent checker.
        let x = Lit::new(Var(0), true);
        let blob = certificate_blob(&[vec![x], vec![!x]], &[]);
        assert!(atropos_proof::check_blob(&blob).is_ok());
    }

    #[test]
    fn assumption_core_trailer_checks() {
        // (¬a ∨ ¬b) with failed core {a, b}: the trailer adds ¬core (RUP
        // against the input), assumes the core, and closes with ⊥.
        let a = Lit::new(Var(0), true);
        let b = Lit::new(Var(1), true);
        let blob = certificate_blob(&[vec![!a, !b]], &[a, b]);
        assert!(atropos_proof::check_blob(&blob).is_ok());
    }

    #[test]
    fn high_variables_are_renumbered_under_the_decoder_bound() {
        // A variable far beyond this tiny blob's payload length would be
        // rejected as out of range; renumbered it is variable 1.
        let x = Lit::new(Var(1 << 20), true);
        let blob = certificate_blob(&[vec![x], vec![!x]], &[]);
        assert!(blob.len() < 1 << 20);
        assert!(atropos_proof::check_blob(&blob).is_ok());
    }
}
